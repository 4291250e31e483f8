from fractions import Fraction

import pytest

from arithcurves.cartan import ROOT_COUNT, CartanType
from arithcurves.charmorph import realization
from arithcurves.errors import NotARoot, UnsupportedType
from arithcurves.rootsys import (WEYL_ORDER, build_root_system, cartan_integer, inner,
                                 root_system_json, vadd, vneg, weyl_group)
from helpers import compose, reflect, root_string, simple_reflections, vscale

ALL_TYPES = sorted(f"{f}{r}" for f, r in ROOT_COUNT)


def closure_oracle(rs):
    """Brute-force closure of the simple roots under reflections in found roots."""
    found = set(rs.simple)
    changed = True
    while changed:
        changed = False
        for a in list(found):
            for b in list(found):
                img = reflect(rs, a, b)
                for v in (img, vneg(img)):
                    if v not in found:
                        found.add(v)
                        changed = True
    return found


@pytest.mark.parametrize("token", ALL_TYPES)
def test_counts_match_closure_oracle(token):
    rs = build_root_system(token)
    t = rs.cartan_type
    assert len(rs.roots) == ROOT_COUNT[(t.family, t.rank)]
    assert closure_oracle(rs) == set(rs.roots)


def test_a1_roots():
    rs = build_root_system("A1")
    a = rs.simple[0]
    assert set(rs.roots) == {a, vneg(a)}


def test_a2_positive_roots():
    rs = build_root_system("A2")
    a1, a2 = rs.simple
    assert set(rs.positive) == {a1, a2, vadd(a1, a2)}
    assert len(rs.roots) == 6


def test_g2_short_long_split():
    rs = build_root_system("G2")
    short = [a for a in rs.roots if inner(rs, a, a) == 2]
    long = [a for a in rs.roots if inner(rs, a, a) == 6]
    assert len(short) == 6 and len(long) == 6


@pytest.mark.parametrize("token", ALL_TYPES)
def test_positive_negative_partition(token):
    rs = build_root_system(token)
    neg = {vneg(a) for a in rs.positive}
    assert set(rs.roots) == set(rs.positive) | neg
    assert not (set(rs.positive) & neg)
    for b in rs.positive:
        cf = rs.coeffs[b]
        assert all(c >= 0 for c in cf)


@pytest.mark.parametrize("token", ALL_TYPES)
def test_no_other_multiples(token):
    rs = build_root_system(token)
    for a in rs.roots:
        assert rs.is_root(vneg(a))
        for k in (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-2)):
            assert tuple(k * c for c in a) not in rs.index


def test_cartan_integer_examples():
    rs = build_root_system("A2")
    a1, a2 = rs.simple
    assert cartan_integer(rs, a1, a1) == 2
    assert cartan_integer(rs, a1, a2) == -1
    g2 = build_root_system("G2")
    short, long = g2.simple  # alpha1 short, alpha2 long
    assert inner(g2, short, short) == 2 and inner(g2, long, long) == 6
    assert cartan_integer(g2, long, short) == -3
    assert cartan_integer(g2, short, long) == -1


@pytest.mark.parametrize("token", ALL_TYPES)
def test_cartan_integers_bounded(token):
    rs = build_root_system(token)
    for a in rs.roots:
        for b in rs.roots:
            assert cartan_integer(rs, a, b) in {0, 1, -1, 2, -2, 3, -3, 4, -4}


@pytest.mark.parametrize("token", ALL_TYPES)
def test_roots_and_pairing_are_ints(token):
    rs = build_root_system(token)
    assert type(rs.ip_scale) is int
    assert all(type(x) is int for a in rs.roots for x in a)
    assert all(type(inner(rs, a, b)) is int for a in rs.roots for b in rs.roots)
    assert all(type(cartan_integer(rs, a, b)) is int for a in rs.roots for b in rs.roots)
    assert all(type(x) is int for a in rs.simple for b in rs.roots
               for x in reflect(rs, b, a))


def _sympy_cartan_matrix(token):
    """sympy's Cartan matrix, entry (i, j) = 2 (a_i, a_j) / (a_j, a_j)."""
    sympy = pytest.importorskip("sympy")
    from sympy.liealgebras.cartan_matrix import CartanMatrix
    if token == "A1":                 # sympy's cartan_matrix fails on the 1 x 1 case
        return sympy.Matrix([[2]])
    if token == "C2":                 # sympy builds C_n for n >= 3 only; C_n is dual to B_n
        return CartanMatrix("B2").T
    return CartanMatrix(token)


@pytest.mark.parametrize("token", ALL_TYPES)
def test_cartan_matrix_matches_sympy(token):
    expected = _sympy_cartan_matrix(token)
    rs = build_root_system(token)
    ours = [[cartan_integer(rs, a, b) for b in rs.simple] for a in rs.simple]
    assert all(type(x) is int for row in ours for x in row)
    assert ours == expected.tolist()


def test_cartan_integer_rejects_non_root():
    rs = build_root_system("A2")
    with pytest.raises(NotARoot):
        cartan_integer(rs, rs.simple[0], (Fraction(1), Fraction(1), Fraction(1)))


def test_reflect_examples():
    rs = build_root_system("A2")
    a1, a2 = rs.simple
    assert reflect(rs, a1, a1) == vneg(a1)
    assert reflect(rs, a2, a1) == vadd(a1, a2)
    perp = (Fraction(1), Fraction(1), Fraction(1))  # orthogonal to every root
    assert reflect(rs, perp, a1) == perp


@pytest.mark.parametrize("token", ALL_TYPES)
def test_reflections_involutive_and_permute(token):
    rs = build_root_system(token)
    for a in rs.simple:
        for b in rs.roots:
            img = reflect(rs, b, a)
            assert rs.is_root(img)
            assert reflect(rs, img, a) == b


def test_root_string_examples():
    rs = build_root_system("A2")
    a1, a2 = rs.simple
    assert root_string(rs, a1, a2) == (0, 1)
    g2 = build_root_system("G2")
    short, long = g2.simple
    assert root_string(g2, short, long) == (0, 3)
    with pytest.raises(ValueError):
        root_string(rs, a1, a1)
    with pytest.raises(ValueError):
        root_string(rs, a1, vneg(a1))


@pytest.mark.parametrize("token", ALL_TYPES)
def test_root_string_identity(token):
    """l - k = <beta, alpha> over every valid pair."""
    rs = build_root_system(token)
    for a in rs.roots:
        for b in rs.roots:
            if b == a or b == vneg(a):
                continue
            lo, up = root_string(rs, a, b)
            assert lo - up == cartan_integer(rs, b, a)
            # endpoints really are endpoints
            assert rs.is_root(tuple(x - lo * y for x, y in zip(b, a)))
            assert rs.is_root(tuple(x + up * y for x, y in zip(b, a)))
            assert not rs.is_root(tuple(x - (lo + 1) * y for x, y in zip(b, a)))
            assert not rs.is_root(tuple(x + (up + 1) * y for x, y in zip(b, a)))


@pytest.mark.parametrize("token", ALL_TYPES)
def test_root_index_matches_the_root_vectors(token):
    """Every field of the index view, and every root string it walks, against the
    root vectors: sums and differences of two roots are roots exactly when their
    weights are keys of `at`."""
    rs = build_root_system(token)
    view, n = rs.view, len(rs.roots)
    assert [rs.index[vneg(a)] for a in rs.roots] == [(i + n // 2) % n for i in range(n)]
    assert rs.roots[:rs.rank] == rs.simple
    assert list(view.norm) == [inner(rs, a, a) for a in rs.roots]
    assert [list(row) for row in view.cartan] == \
        [[cartan_integer(rs, a, s) for a in rs.roots] for s in rs.simple]
    assert [list(row) for row in view.reflection] == \
        [[rs.index[reflect(rs, a, s)] for a in rs.roots] for s in rs.simple]
    for i, a in enumerate(rs.roots):
        for j, b in enumerate(rs.roots):
            for sign in (1, -1):
                v = tuple(x + sign * y for x, y in zip(a, b))
                assert view.at.get(view.weight[i] + sign * view.weight[j]) == rs.index.get(v)
            if b not in (a, vneg(a)):
                assert (view.string(j, i, -1), view.string(j, i, 1)) == root_string(rs, a, b)


@pytest.mark.parametrize("token,order", [("A1", 2), ("A2", 6), ("B3", 48), ("G2", 12)])
def test_weyl_orders(token, order):
    assert len(weyl_group(build_root_system(token))) == order


def test_weyl_order_formulas():
    import math
    for (f, r), order in WEYL_ORDER.items():
        if f == "A":
            assert order == math.factorial(r + 1)
        elif f in ("B", "C"):
            assert order == 2 ** r * math.factorial(r)
        elif f == "D":
            assert order == 2 ** (r - 1) * math.factorial(r)
        else:
            assert order == 12


@pytest.mark.parametrize("token", ALL_TYPES)
def test_weyl_group_closed_and_preserves_inner(token):
    rs = build_root_system(token)
    w = weyl_group(rs)
    perms = {el.perm for el in w}
    assert len(perms) == len(w)
    assert tuple(range(len(rs.roots))) in perms
    for el1 in w[:8]:
        for el2 in w[:8]:
            assert compose(el1, el2).perm in perms
    for el in w:
        for i, a in enumerate(rs.roots):
            img = rs.roots[el.perm[i]]
            assert inner(rs, img, img) == inner(rs, a, a)
            assert inner(rs, img, rs.roots[el.perm[0]]) == inner(rs, a, rs.roots[0])


@pytest.mark.parametrize("token", ALL_TYPES)
def test_weyl_matrices_match_sympy_reflection_products(token):
    """The product of charmorph's simple-reflection matrices along each Weyl word
    equals the product of sympy's reflections I - 2 a a^T / (a^T a) along it, and
    moves every root as the element's permutation says.

    Root images alone would not pin the matrix down on the (1, ..., 1)
    direction of type A, so compare whole matrices.  G2's matrices act on the
    plane coordinates (c1, c2) of c1 b1 + c2 b2, b1 = (1,-1,0), b2 = (1,1,-2).
    """
    sympy = pytest.importorskip("sympy")
    rs = build_root_system(token)
    n = len(rs.simple[0])
    refl = []
    for a in rs.simple:
        col = sympy.Matrix(a)
        refl.append(sympy.eye(n) - 2 * col * col.T / (col.T * col)[0, 0])
    to_coords = to_ambient = sympy.eye(n)
    if token == "G2":
        to_ambient = sympy.Matrix([[1, 1], [-1, 1], [0, -2]])
        to_coords = (to_ambient.T * to_ambient).inv() * to_ambient.T
    ours = [sympy.Matrix(m) for m in simple_reflections(realization(token))]
    assert len(ours) == rs.rank
    roots = sympy.Matrix.hstack(*(sympy.Matrix(a) for a in rs.roots))
    # a word (i, *rest) acts as s_i after rest, and weyl_group lists rest earlier
    expected, got = {(): sympy.eye(n)}, {(): sympy.eye(to_coords.rows)}
    for el in weyl_group(rs):
        if el.word:
            i, rest = el.word[0], el.word[1:]
            expected[el.word], got[el.word] = refl[i] * expected[rest], ours[i] * got[rest]
        assert got[el.word] == to_coords * expected[el.word] * to_ambient, el.word
        moved = to_ambient * got[el.word] * to_coords * roots
        assert [tuple(moved.col(j)) for j in range(len(rs.roots))] == \
            [rs.roots[k] for k in el.perm]


@pytest.mark.parametrize("token", ALL_TYPES)
def test_poset_walk_coordinates(token):
    """Every root is the sum of the simple roots weighted by its coordinates."""
    rs = build_root_system(token)
    assert set(rs.coeffs) == set(rs.roots)
    for a in rs.roots:
        total = (0,) * len(rs.simple[0])
        for c, s in zip(rs.coeffs[a], rs.simple):
            total = vadd(total, vscale(c, s))
        assert total == a
        assert all(type(c) is int for c in rs.coeffs[a])
        assert all(c >= 0 for c in rs.coeffs[a]) == (a in rs.positive)


@pytest.mark.parametrize("bad", ["E8", "F4", "A5", "B1", "D2", "G3", "Z2", "A0"])
def test_unsupported_types(bad):
    with pytest.raises(UnsupportedType):
        build_root_system(bad)


def test_json_shape():
    doc = root_system_json(build_root_system("A2"))
    assert doc["type"] == "A2"
    assert doc["gram"] == [["2", "-1"], ["-1", "2"]]
    assert len(doc["positive"]) == 3


def test_b_family_norms():
    rs = build_root_system("B3")
    norms = sorted({inner(rs, a, a) for a in rs.roots})
    assert norms == [2, 4]


def test_cartan_type_parse_and_order():
    assert CartanType.parse("g2") == CartanType("G", 2)
    assert str(CartanType.parse("B3")) == "B3"
    assert sorted(CartanType.parse(t) for t in ("G2", "B3", "A4", "B2", "A1")) == [
        CartanType("A", 1), CartanType("A", 4), CartanType("B", 2), CartanType("B", 3),
        CartanType("G", 2)]


@pytest.mark.parametrize("family, rank", [("E", 8), ("A", 5), ("B", 1), ("D", 2), ("A", 0)])
def test_unsupported_type_from_each_entry_point(family, rank):
    token = f"{family}{rank}"
    with pytest.raises(UnsupportedType):
        CartanType.parse(token)
    with pytest.raises(UnsupportedType):
        build_root_system(token)
    with pytest.raises(UnsupportedType):
        build_root_system(CartanType(family, rank))
    with pytest.raises(UnsupportedType):
        realization(token)
    with pytest.raises(UnsupportedType):
        realization(CartanType(family, rank))
