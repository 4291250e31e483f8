"""Torsor slopes from exact Gram determinants, and the floating-point Lemma-7
oracle (tests/lemma7.py) on the forms those Gram matrices witness."""

import math
from fractions import Fraction

import pytest

np = pytest.importorskip("numpy")
from arithcurves import linalg, torsor  # noqa: E402
from arithcurves.arakelov import FractionalIdeal, NumberField  # noqa: E402
from arithcurves.cli_slope import read_torsor  # noqa: E402
from arithcurves.errors import MAX_TORSOR_RANK, ArithCurvesError, MalformedInput  # noqa: E402
from arithcurves.torsor import GAUSSIAN, gram_det, slope  # noqa: E402
from helpers import char_poly  # noqa: E402
from lemma7 import (act, ad_matrix, canonical_form, center_basis,  # noqa: E402
                    semisimple_basis, verify_compatibility, witnessed_form)

RNG = np.random.default_rng(20260810)


def vec(m):
    return np.asarray(m, dtype=float).reshape(-1)


def rand_gln(n, rng=RNG, complex_place=False):
    while True:
        g = rng.standard_normal((n, n))
        if complex_place:
            g = g + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(g) < 50:
            return g


def test_canonical_form_values():
    cd = canonical_form(2)
    e12, e21 = np.zeros(4), np.zeros(4)
    e12[1], e21[2] = 1.0, 1.0
    assert e12 @ cd.H_can @ e12 == 1.0            # (E12, E12) = Tr(E12 E12^T)
    assert e12 @ cd.H_K @ e21 == 1.0              # <E12, E21> = Tr(E12 E21)
    assert e12 @ cd.H_K @ e12 == 0.0
    for n in (1, 2, 3):
        for place in ("real", "complex"):
            cd = canonical_form(n, place)
            assert np.array_equal(cd.H_can, np.eye(cd.dim))


def test_canonical_form_rank_limit():
    """The oracle takes the largest rank; the torsor reader refuses one more, before it
    reads an ideal or a Gram matrix, with the message the limit has always had."""
    assert canonical_form(MAX_TORSOR_RANK, "complex").dim == 2 * MAX_TORSOR_RANK ** 2
    for n in (MAX_TORSOR_RANK, MAX_TORSOR_RANK + 1):
        doc = {"field": "Q(i)", "rank": n, "ideals": [["1"]] * n,
               "metrics": [[[[int(i == j), 0] for j in range(n)] for i in range(n)]]}
        if n == MAX_TORSOR_RANK:
            assert read_torsor(doc)[3][0][1] == 1
            continue
        doc["ideals"] = "not read"
        with pytest.raises(ArithCurvesError) as exc:
            read_torsor(doc)
        assert type(exc.value) is ArithCurvesError
        assert str(exc.value) == f"torsor rank {n} exceeds the limit {MAX_TORSOR_RANK}"


def test_canonical_form_positive_definite():
    for n in (1, 2, 3):
        cd = canonical_form(n)
        assert np.linalg.eigvalsh(cd.H_can).min() > 0.9


def test_trace_form_ad_invariant():
    """<[X,Y],Z> = <X,[Y,Z]> for the flattened trace form."""
    cd = canonical_form(3)
    for _ in range(10):
        x, y, z = (RNG.standard_normal((3, 3)) for _ in range(3))
        lhs = vec(x @ y - y @ x) @ cd.H_K @ vec(z)
        rhs = vec(x) @ cd.H_K @ vec(y @ z - z @ y)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_theta_fixed_space_dimension():
    for n in (2, 3):
        cd = canonical_form(n)
        fixed_dim = int(round((np.linalg.eigvalsh(cd.theta_K) > 0).sum()))
        assert fixed_dim == n * (n - 1) // 2      # antisymmetric matrices
    cdc = canonical_form(2, "complex")
    fixed = int(round((np.linalg.eigvalsh(cdc.theta_K) > 0).sum()))
    assert fixed == 4                             # u(2) inside gl_2(C)


def test_fine_involution_examples():
    """theta_H = -H_K^{-1} H is theta_K for the canonical form, an involution for a
    compatible one and not for a generic positive form."""
    cd = canonical_form(2)
    assert np.allclose(-np.linalg.solve(cd.H_K, cd.H_can), cd.theta_K)
    assert verify_compatibility(cd, cd.H_can).involution_residual < 1e-12
    h = witnessed_form(cd, np.diag([2.0, 1.0]))
    vs = semisimple_basis(cd)
    hss = vs.T @ h @ vs
    hkss = vs.T @ cd.H_K @ vs
    theta = -np.linalg.solve(hkss, hss)
    assert np.abs(theta @ theta - np.eye(3)).max() < 1e-12
    a = RNG.standard_normal((4, 4))
    bad = a.T @ a + 0.3 * np.eye(4)
    theta_bad = -np.linalg.solve(cd.H_K, bad)
    assert np.abs(theta_bad @ theta_bad - np.eye(4)).max() > 1e-3
    assert not verify_compatibility(cd, bad).involution_ok


def test_fine_involution_shape_check():
    with pytest.raises(ValueError):
        verify_compatibility(canonical_form(2), np.eye(3))
    with pytest.raises(ValueError):
        verify_compatibility(canonical_form(2), np.diag([1.0, np.inf, 1.0, 1.0]))


def test_witnessed_metrics_pass_all_clauses():
    for n in (2, 3):
        cd = canonical_form(n)
        for _ in range(25):
            rep = verify_compatibility(cd, witnessed_form(cd, rand_gln(n)))
            assert rep.ok, rep


def test_center_scaled_canonical_passes():
    cd = canonical_form(2)
    u = center_basis(cd)
    h = cd.H_can + 1.0 * (u @ u.T)               # center block doubled
    assert verify_compatibility(cd, h).ok


def test_off_block_perturbation_fails():
    cd = canonical_form(2)
    u = center_basis(cd)[:, 0]
    v = semisimple_basis(cd)[:, 0]
    h = cd.H_can + 0.1 * (np.outer(u, v) + np.outer(v, u))
    rep = verify_compatibility(cd, h)
    assert not rep.ok and not rep.splitting_ok


def test_generic_spd_fails():
    cd = canonical_form(2)
    for _ in range(25):
        a = RNG.standard_normal((4, 4))
        rep = verify_compatibility(cd, a.T @ a + 0.2 * np.eye(4))
        assert not rep.ok


def test_block_splitting_reconstructs_metric():
    """A compatible metric is exactly its (trace-zero block, center block) pair."""
    cd = canonical_form(2)
    u = center_basis(cd)
    vs = semisimple_basis(cd)
    basis = np.hstack([vs, u])
    for _ in range(10):
        h = witnessed_form(cd, rand_gln(2))
        hss = vs.T @ h @ vs
        hz = u.T @ h @ u
        rebuilt = basis @ np.block(
            [[hss, np.zeros((vs.shape[1], u.shape[1]))],
             [np.zeros((u.shape[1], vs.shape[1])), hz]]) @ basis.T
        assert np.abs(rebuilt - h).max() < 1e-9 * (1 + np.abs(h).max())


def test_act_identity_and_stabilizer():
    cd = canonical_form(3)
    assert np.allclose(act(cd, np.eye(3), cd.H_can), cd.H_can)
    for _ in range(20):
        q, _ = np.linalg.qr(RNG.standard_normal((3, 3)))
        assert np.abs(act(cd, q, cd.H_can) - cd.H_can).max() < 1e-12
    g = np.diag([2.0, 1.0, 1.0])
    assert np.abs(act(cd, g, cd.H_can) - cd.H_can).max() > 1e-6


def test_act_is_right_action_and_keeps_compatibility():
    """Acting by g1 then g2 is acting by g1 g2, and the form stays the one witnessed
    by g1 g2: compatible, with Gram matrix (g1 g2)^T (g1 g2)."""
    cd = canonical_form(2)
    for _ in range(10):
        g1, g2 = rand_gln(2), rand_gln(2)
        h12 = act(cd, g2, act(cd, g1, cd.H_can))
        h = witnessed_form(cd, g1 @ g2)
        assert np.abs(h12 - h).max() < 1e-6 * max(1.0, np.abs(h).max())
        assert verify_compatibility(cd, h12).ok


def test_act_rejects_singular():
    """The oracle cannot act by a singular g, and the library refuses the Gram
    matrix g^T g of a singular integer g as not positive definite."""
    cd = canonical_form(2)
    with pytest.raises(np.linalg.LinAlgError):
        act(cd, np.zeros((2, 2)), cd.H_can)
    with pytest.raises(np.linalg.LinAlgError):
        ad_matrix(cd, np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ArithCurvesError, match="must be positive definite"):
        gram_det([[Fraction(5), Fraction(0)], [Fraction(0), Fraction(0)]])
    tiny = 1e-7 * np.eye(2)                       # det 1e-14: small, but invertible
    assert np.abs(ad_matrix(cd, tiny) - np.eye(4)).max() < 1e-12
    small = Fraction(1, 10 ** 7)
    assert gram_det([[small ** 2, 0], [0, small ** 2]]) == Fraction(1, 10 ** 28)


def test_complex_place_witnessed():
    cd = canonical_form(2, "complex")
    for _ in range(10):
        g = rand_gln(2, complex_place=True)
        assert verify_compatibility(cd, witnessed_form(cd, g)).ok


def identity(n, field=None):
    one, zero = (field.element(1), field.element(0)) if field else (Fraction(1), Fraction(0))
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def unit_dets(K, n):
    """The Gram determinants of the canonical metric at every place of K: all 1."""
    r1, r2 = K.signature
    return [gram_det(identity(n)) for _ in range(r1)] + [
        gram_det(identity(n, GAUSSIAN), GAUSSIAN) for _ in range(r2)]


def test_trivial_torsor_slope_zero():
    """O_F^n with the canonical metric at every place has slope 0, printed as 0."""
    for K in [NumberField(0), NumberField(2), NumberField(-5)]:
        value = slope(K, FractionalIdeal.ring_of_integers(K), unit_dets(K, 2), 1)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_gl1_metric_slope():
    K = NumberField(0)
    for t in (Fraction(1, 2), Fraction(2), Fraction(3)):
        det = gram_det([[t * t]])
        assert det == t * t
        assert slope(K, FractionalIdeal.ring_of_integers(K), [det], 1) == pytest.approx(
            -math.log(t), abs=1e-12)


def test_class_number_slope():
    K = NumberField(-5)
    ideal = FractionalIdeal.from_elements(K, [K.element(2), K.element(1, 1)])
    det_ideal = FractionalIdeal.ring_of_integers(K) * ideal
    assert det_ideal == ideal                    # O_F * I = I
    assert unit_dets(K, 2) == [1]
    assert slope(K, det_ideal, unit_dets(K, 2), 1) == pytest.approx(-math.log(2), abs=1e-12)


def test_slope_additive_in_character_power():
    K = NumberField(0)
    unit = FractionalIdeal.ring_of_integers(K)
    dets = [gram_det([[Fraction(4), Fraction(0)], [Fraction(0), Fraction(9)]])]
    assert slope(K, unit, dets, 3) == pytest.approx(slope(K, unit, dets, 1)
                                                    + slope(K, unit, dets, 2), abs=1e-9)
    assert slope(K, unit, dets, 1) == pytest.approx(-math.log(6), abs=1e-12)


def test_rank_limit_torsor_is_not_rechecked(monkeypatch):
    """A metric is compatible by construction: its slope at the rank limit runs one
    Berkowitz pass on the Gram matrix g^H g and no clause check, and the exact det
    is |det g|^2."""
    calls, berkowitz = [], linalg.integral_char_poly

    def counted(*args):
        calls.append(args)
        return berkowitz(*args)

    monkeypatch.setattr(linalg, "integral_char_poly", counted)
    n = MAX_TORSOR_RANK
    rng = np.random.default_rng(16)
    re, im = (rng.integers(-2, 3, (n, n)) for _ in range(2))
    g = [[GAUSSIAN.element(int(10 * (i == j) + re[i][j]), int(im[i][j])) for j in range(n)]
         for i in range(n)]
    gram = [[sum((g[k][i].conj() * g[k][j] for k in range(n)), GAUSSIAN.element(0))
             for j in range(n)] for i in range(n)]
    det = gram_det(gram, GAUSSIAN)
    assert len(calls) == 1
    det_g = char_poly(g)[-1]              # (-1)^n det g, n even
    assert det == det_g.norm()
    K = NumberField(-5)
    expected = -math.log(abs(np.linalg.det(np.array(
        [[complex(x.a, x.b) for x in row] for row in g]))) ** 2)   # weight 2, -log sqrt det
    assert slope(K, FractionalIdeal.ring_of_integers(K), [det], 1) == pytest.approx(
        expected, rel=1e-9)


def test_slope_pairs_det_with_the_central_cocharacter():
    """det composed with the central cocharacter t -> t Id is t -> t^n: the metric
    pulled back along t Id moves the slope of det^k by -k n log t, bilinearly."""
    K = NumberField(0)
    unit = FractionalIdeal.ring_of_integers(K)
    for n in (1, 2, 3):
        for t in (Fraction(1, 2), Fraction(2), Fraction(3)):
            gram = [[t * t * x for x in row] for row in identity(n)]
            for k in (1, 2, -3):
                assert slope(K, unit, [gram_det(gram)], k) == pytest.approx(
                    -k * n * math.log(t), abs=1e-9)


def test_gram_matrix_refusals_read_as_before():
    """gram_det refuses, with the messages the Cholesky reader gave, a Gram matrix
    that is not symmetric (Hermitian at a complex place) or not positive definite,
    exactly: an asymmetry of 1e-12, once within tolerance, is refused too."""
    half = Fraction(1, 2)
    cases = [
        ([[Fraction(2), Fraction(1)], [Fraction(1) + Fraction(1, 10 ** 12), Fraction(2)]],
         None, MalformedInput, "metric Gram matrix must be symmetric"),
        ([[GAUSSIAN.element(1), GAUSSIAN.element(0, half)],
          [GAUSSIAN.element(0, half), GAUSSIAN.element(1)]],
         GAUSSIAN, MalformedInput, "metric Gram matrix must be Hermitian"),
        ([[GAUSSIAN.element(1, 1)]], GAUSSIAN, MalformedInput,
         "metric Gram matrix must be Hermitian"),
        ([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]], None, ArithCurvesError,
         "metric Gram matrix must be positive definite"),
        ([[GAUSSIAN.element(1), GAUSSIAN.element(0, 1)],
          [GAUSSIAN.element(0, -1), GAUSSIAN.element(1)]], GAUSSIAN, ArithCurvesError,
         "metric Gram matrix must be positive definite"),
    ]
    for gram, field, kind, message in cases:
        with pytest.raises(ArithCurvesError) as exc:
            gram_det(gram, field)
        assert (type(exc.value), str(exc.value)) == (kind, message)
    # [[1, i/2], [-i/2, 1]] is Hermitian and positive definite, with det 3/4
    assert gram_det([[GAUSSIAN.element(1), GAUSSIAN.element(0, half)],
                     [GAUSSIAN.element(0, -half), GAUSSIAN.element(1)]], GAUSSIAN) == Fraction(3, 4)
    assert torsor.gram_det([[Fraction(5), Fraction(2)], [Fraction(2), Fraction(3)]]) == 11
