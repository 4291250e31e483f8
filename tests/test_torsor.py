import math

import numpy as np
import pytest

from arithcurves import torsor
from arithcurves.arakelov import FractionalIdeal, NumberField
from arithcurves.errors import (MAX_TORSOR_RANK, ArithCurvesError, DimensionMismatch,
                               SingularMatrix)
from arithcurves.torsor import (ArithmeticTorsor, CompatibleMetric, act, ad_matrix,
                                canonical_form, center_basis, determinant_bundle,
                                semisimple_basis, slope, verify_compatibility,
                                witnessed_metric)

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
    cd1 = canonical_form(1)
    assert cd1.H_can[0, 0] > 0


def test_canonical_form_rank_limit():
    assert canonical_form(MAX_TORSOR_RANK, "complex").dim == 2 * MAX_TORSOR_RANK ** 2
    for place in ("real", "complex"):
        with pytest.raises(ArithCurvesError, match="exceeds the limit"):
            canonical_form(MAX_TORSOR_RANK + 1, place)


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


def canonical_metric(cd):
    """The canonical metric -<X, theta_K Y>: the one g = 1 witnesses."""
    return witnessed_metric(cd, np.eye(cd.n))


def trivial_torsor(K, n):
    """O_F^n with the canonical metric at every place."""
    r1, r2 = K.signature
    metrics = tuple(canonical_metric(canonical_form(n, kind))
                    for kind in ["real"] * r1 + ["complex"] * r2)
    return ArithmeticTorsor(field=K, rank=n, ideals=(FractionalIdeal.ring_of_integers(K),) * n,
                            metrics=metrics)


def test_fine_involution_examples():
    """theta_H = -H_K^{-1} H is theta_K for the canonical form, an involution for a
    compatible one and not for a generic positive form."""
    cd = canonical_form(2)
    assert np.allclose(-np.linalg.solve(cd.H_K, cd.H_can), cd.theta_K)
    assert verify_compatibility(cd, cd.H_can).involution_residual < 1e-12
    m = witnessed_metric(cd, np.diag([2.0, 1.0]))
    vs = semisimple_basis(cd)
    hss = vs.T @ m.H @ vs
    hkss = vs.T @ cd.H_K @ vs
    theta = -np.linalg.solve(hkss, hss)
    assert np.abs(theta @ theta - np.eye(3)).max() < 1e-12
    a = RNG.standard_normal((4, 4))
    bad = a.T @ a + 0.3 * np.eye(4)
    theta_bad = -np.linalg.solve(cd.H_K, bad)
    assert np.abs(theta_bad @ theta_bad - np.eye(4)).max() > 1e-3
    assert not verify_compatibility(cd, bad).involution_ok


def test_fine_involution_shape_check():
    with pytest.raises(DimensionMismatch):
        verify_compatibility(canonical_form(2), np.eye(3))
    with pytest.raises(ArithCurvesError, match="beyond the floating-point range"):
        verify_compatibility(canonical_form(2), np.diag([1.0, np.inf, 1.0, 1.0]))


def test_witnessed_metrics_pass_all_clauses():
    for n in (2, 3):
        cd = canonical_form(n)
        for _ in range(25):
            rep = witnessed_metric(cd, rand_gln(n)).verify()
            assert rep.ok, rep.as_dict()


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
        m = witnessed_metric(cd, rand_gln(2))
        hss = vs.T @ m.H @ vs
        hz = u.T @ m.H @ u
        rebuilt = basis @ np.block(
            [[hss, np.zeros((vs.shape[1], u.shape[1]))],
             [np.zeros((u.shape[1], vs.shape[1])), hz]]) @ basis.T
        assert np.abs(rebuilt - m.H).max() < 1e-9 * (1 + np.abs(m.H).max())


def test_act_identity_and_stabilizer():
    cd = canonical_form(3)
    assert np.allclose(act(cd, np.eye(3), cd.H_can.copy()), cd.H_can)
    for _ in range(20):
        q, _ = np.linalg.qr(RNG.standard_normal((3, 3)))
        assert np.abs(act(cd, q, cd.H_can.copy()) - cd.H_can).max() < 1e-12
    g = np.diag([2.0, 1.0, 1.0])
    assert np.abs(act(cd, g, cd.H_can.copy()) - cd.H_can).max() > 1e-6


def test_act_is_right_action_and_keeps_compatibility():
    cd = canonical_form(2)
    for _ in range(10):
        g1, g2 = rand_gln(2), rand_gln(2)
        h12 = act(cd, g2, act(cd, g1, cd.H_can.copy()))
        h = act(cd, g1 @ g2, cd.H_can.copy())
        assert np.abs(h12 - h).max() < 1e-6 * max(1.0, np.abs(h).max())
        m = act(cd, g2, act(cd, g1, canonical_metric(cd)))
        assert isinstance(m, CompatibleMetric)
        assert np.abs(m.witness - g1 @ g2).max() < 1e-12 * max(1.0, np.abs(g1 @ g2).max())
        assert np.abs(m.H - h).max() < 1e-6 * max(1.0, np.abs(h).max())
        assert m.verify().ok


def test_act_rejects_singular():
    cd = canonical_form(2)
    with pytest.raises(SingularMatrix):
        act(cd, np.zeros((2, 2)), cd.H_can.copy())
    with pytest.raises(SingularMatrix):
        ad_matrix(cd, np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(SingularMatrix):
        witnessed_metric(cd, np.array([[1.0, 0.0], [2.0, 0.0]]))
    tiny = 1e-7 * np.eye(2)                       # det 1e-14: small, but invertible
    assert np.abs(ad_matrix(cd, tiny) - np.eye(4)).max() < 1e-12
    assert np.abs(witnessed_metric(cd, tiny).std - 1e-14 * np.eye(2)).max() < 1e-28


def test_complex_place_witnessed():
    cd = canonical_form(2, "complex")
    for _ in range(10):
        m = witnessed_metric(cd, rand_gln(2, complex_place=True))
        assert m.verify().ok
        assert np.abs(m.std - m.std.conj().T).max() < 1e-12   # Hermitian Gram


def test_trivial_torsor_slope_zero():
    for K in [NumberField(0), NumberField(2), NumberField(-5)]:
        T = trivial_torsor(K, 2)
        assert slope(T, 1) == pytest.approx(0.0, abs=1e-12)


def test_gl1_metric_slope():
    K = NumberField(0)
    cd = canonical_form(1)
    for t in (0.5, 2.0, 3.0):
        m = witnessed_metric(cd, np.array([[t]]))
        assert m.std[0, 0] == t * t and m.H[0, 0] == 1.0
        T = ArithmeticTorsor(field=K, rank=1,
                             ideals=(FractionalIdeal.ring_of_integers(K),),
                             metrics=(m,))
        assert slope(T, 1) == pytest.approx(-math.log(t), abs=1e-12)


def test_class_number_slope():
    K = NumberField(-5)
    ideal = FractionalIdeal.from_elements(K, [K.element(2), K.element(1, 1)])
    T = ArithmeticTorsor(field=K, rank=2,
                         ideals=(FractionalIdeal.ring_of_integers(K), ideal),
                         metrics=(canonical_metric(canonical_form(2, "complex")),))
    assert slope(T, 1) == pytest.approx(-math.log(2), abs=1e-9)
    det = determinant_bundle(T)
    assert det.ideal == ideal                    # O_F * I = I
    assert det.metrics[0] == pytest.approx(1.0)


def test_slope_additive_in_character_power():
    K = NumberField(0)
    cd = canonical_form(2)
    m = witnessed_metric(cd, np.diag([2.0, 3.0]))
    T = ArithmeticTorsor(field=K, rank=2,
                         ideals=(FractionalIdeal.ring_of_integers(K),) * 2,
                         metrics=(m,))
    assert slope(T, 3) == pytest.approx(slope(T, 1) + slope(T, 2), abs=1e-9)
    assert slope(T, 1) == pytest.approx(-math.log(6), abs=1e-9)


def test_rank_limit_torsor_is_not_rechecked(monkeypatch):
    """A witnessed metric is compatible by construction: building a torsor and
    taking its slope runs no clause check, even at the rank limit."""
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return verify_compatibility(*args, **kw)

    monkeypatch.setattr(torsor, "verify_compatibility", counted)
    K = NumberField(-5)
    n = MAX_TORSOR_RANK
    rng = np.random.default_rng(16)
    g = np.eye(n) + 0.1 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = witnessed_metric(canonical_form(n, "complex"), g)
    T = ArithmeticTorsor(field=K, rank=n, ideals=(FractionalIdeal.ring_of_integers(K),) * n,
                         metrics=(m,))
    expected = -math.log(abs(np.linalg.det(g)) ** 2)     # place weight 2 times -log sqrt det
    assert slope(T, 1) == pytest.approx(expected, rel=1e-9)
    assert calls == []
    assert m.verify().ok and len(calls) == 1


def test_slope_pairs_det_with_the_central_cocharacter():
    """det composed with the central cocharacter t -> t Id is t -> t^n: the metric
    pulled back along t Id moves the slope of det^k by -k n log t, bilinearly."""
    K = NumberField(0)
    unit = FractionalIdeal.ring_of_integers(K)
    for n in (1, 2, 3):
        cd = canonical_form(n)
        for t in (0.5, 2.0, 3.0):
            T = ArithmeticTorsor(field=K, rank=n, ideals=(unit,) * n,
                                 metrics=(witnessed_metric(cd, t * np.eye(n)),))
            for k in (1, 2, -3):
                assert slope(T, k) == pytest.approx(-k * n * math.log(t), abs=1e-9)


def _error(call) -> tuple[type, str]:
    with pytest.raises(ArithCurvesError) as exc:
        call()
    return type(exc.value), str(exc.value)


def test_torsor_records_raise_as_before_and_are_immutable():
    K = NumberField(-5)
    unit = FractionalIdeal.ring_of_integers(K)
    real, cplx = (canonical_metric(canonical_form(2, kind)) for kind in ("real", "complex"))
    assert _error(lambda: ArithmeticTorsor(K, 2, (unit,), (cplx,))) == (
        ArithCurvesError, "need one ideal per basis vector")
    assert _error(lambda: ArithmeticTorsor(K, 2, (unit, unit), (cplx, cplx))) == (
        ArithCurvesError, "need 1 place metrics")
    assert _error(lambda: ArithmeticTorsor(K, 2, (unit, unit), (real,))) == (
        ArithCurvesError, "metric place data does not match the field")
    T = ArithmeticTorsor(K, 2, (unit, unit), (cplx,))
    report = cplx.verify()
    for record, name in ((T, "rank"), (cplx, "witness"), (cplx.cd, "n"), (report, "tol")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert hash(report) == hash(verify_compatibility(cplx.cd, cplx.H))
