"""Arithmetic GL_n-torsors as metrized lattices.

Per archimedean place the Lie algebra gl_n over R or C is flattened to a real
coordinate space (complex places contribute real and imaginary parts).  In
that basis the Cartan involution is X -> -X^T (resp. X -> -conj(X)^T), the
trace form <X,Y> = Tr XY (resp. Re Tr XY) plays the role of H_K, and the
canonical positive form -<X, theta_K Y> becomes exactly the identity matrix.

A compatible metric is stored as its witness g, an invertible n x n matrix: the
pullback H = Ad(g)^T H_can Ad(g) of the canonical form, compatible by
construction, and the Gram matrix g^H g that the determinant line bundle sees
are formed when read.  `verify_compatibility` checks any form by the four
involution/definiteness clauses, residuals relative to the operand scale, at 1e-9.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .arakelov import (FractionalIdeal, MetrizedLineBundle, NumberField,
                       arithmetic_degree)
from .errors import MAX_TORSOR_RANK, ArithCurvesError, DimensionMismatch, SingularMatrix

TOL = 1e-9


class CartanData(NamedTuple):
    n: int
    place: str                     # "real" | "complex"
    theta_K: np.ndarray            # involution on the flattened Lie algebra
    H_K: np.ndarray                # trace form as a symmetric matrix
    H_can: np.ndarray              # canonical positive form -H_K theta_K (identity)

    @property
    def dim(self) -> int:
        return self.theta_K.shape[0]


def _transpose_perm(n: int) -> np.ndarray:
    p = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            p[i * n + j, j * n + i] = 1.0
    return p


def canonical_form(n: int, place: str = "real") -> CartanData:
    """theta_K, H_K and the canonical positive form on gl_n at one place."""
    if n < 1:
        raise ArithCurvesError("matrix size must be >= 1")
    if n > MAX_TORSOR_RANK:
        raise ArithCurvesError(f"torsor rank {n} exceeds the limit {MAX_TORSOR_RANK}")
    if place not in ("real", "complex"):
        raise ArithCurvesError(f"unknown place kind {place!r}")
    p = _transpose_perm(n)
    if place == "real":
        theta = -p
        hk = p.copy()
    else:
        z = np.zeros_like(p)
        theta = np.block([[-p, z], [z, p]])
        hk = np.block([[p, z], [z, -p]])
    hcan = -hk @ theta
    assert np.allclose(hcan, np.eye(theta.shape[0]))
    return CartanData(n=n, place=place, theta_K=theta, H_K=hk, H_can=hcan)


def _group_element(cd: CartanData, g) -> tuple[np.ndarray, np.ndarray]:
    """(g, g^{-1}) for an n x n matrix over the place's field; exactly singular g is refused."""
    g = np.asarray(g, dtype=complex if cd.place == "complex" else float)
    if g.shape != (cd.n, cd.n):
        raise DimensionMismatch(f"expected {cd.n} x {cd.n} group element")
    try:
        return g, np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise SingularMatrix("group element is not invertible") from None


def ad_matrix(cd: CartanData, g: np.ndarray) -> np.ndarray:
    """Matrix of X -> g X g^{-1} on the flattened coordinates."""
    g, h = _group_element(cd, g)
    m = np.kron(g, h.T)
    if cd.place == "real":
        return m.real
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def _rel(defect: np.ndarray, reference: np.ndarray) -> float:
    return float(np.abs(defect).max() / (1.0 + np.abs(reference).max()))


def center_basis(cd: CartanData) -> np.ndarray:
    """Orthonormal basis of the flattened center (scalar matrices)."""
    n = cd.n
    u = np.eye(n).reshape(-1) / math.sqrt(n)
    if cd.place == "real":
        return u[:, None]
    z = np.zeros_like(u)
    return np.stack([np.concatenate([u, z]), np.concatenate([z, u])], axis=1)


def _range_basis(projector: np.ndarray) -> np.ndarray:
    """Orthonormal basis of a projector's range (its nonzero singular values are >= 1)."""
    vecs, vals, _ = np.linalg.svd(projector)
    return vecs[:, vals > 0.5]


def semisimple_basis(cd: CartanData) -> np.ndarray:
    """Orthonormal basis of the trace-zero block (complement of the center)."""
    u = center_basis(cd)
    return _range_basis(np.eye(cd.dim) - u @ u.T)


def _finite(x: float) -> float | None:
    """x, or None (JSON null) for the infinite extreme eigenvalue of an empty eigenspace."""
    return float(x) if math.isfinite(x) else None


class CompatibilityReport(NamedTuple):
    """Lemma-7 clauses on the trace-zero block plus the center-splitting checks.

    A compatible metric splits as (trace-zero block) + (any positive metric on
    the center); the fine involution is checked on the trace-zero block, where
    the determinant-free part of the group acts, and the center only has to
    stay positive and uncoupled.
    """

    involution_residual: float        # theta_H^2 vs identity on the trace-zero block
    reflection_residual: float        # H_K H^{-1} H_K vs H on the trace-zero block
    plus_max_eig: float               # H_K on the +1 eigenspace (must be < 0)
    minus_min_eig: float              # H_K on the -1 eigenspace (must be > 0)
    cross_residual: float             # H_K-orthogonality of the eigenspaces
    isometry_residual: float          # pullback of H^{-1} along H_K vs H
    block_residual: float             # coupling between trace-zero block and center
    center_min_eig: float             # center block must stay positive definite
    tol: float = TOL

    @property
    def involution_ok(self) -> bool:
        return self.involution_residual < self.tol

    @property
    def reflection_ok(self) -> bool:
        return self.reflection_residual < self.tol

    @property
    def eigenspace_ok(self) -> bool:
        return bool(self.plus_max_eig < -self.tol and self.minus_min_eig > self.tol
                    and self.cross_residual < self.tol)

    @property
    def isometry_ok(self) -> bool:
        return self.isometry_residual < self.tol

    @property
    def splitting_ok(self) -> bool:
        return bool(self.block_residual < self.tol and self.center_min_eig > self.tol)

    @property
    def ok(self) -> bool:
        return (self.involution_ok and self.reflection_ok and self.eigenspace_ok
                and self.isometry_ok and self.splitting_ok)

    def as_dict(self) -> dict:
        return {
            "involution": {"ok": self.involution_ok, "residual": float(self.involution_residual)},
            "reflection": {"ok": self.reflection_ok, "residual": float(self.reflection_residual)},
            "eigenspaces": {"ok": self.eigenspace_ok, "plus_max_eig": _finite(self.plus_max_eig),
                            "minus_min_eig": _finite(self.minus_min_eig),
                            "cross_residual": float(self.cross_residual)},
            "isometry": {"ok": self.isometry_ok, "residual": float(self.isometry_residual)},
            "splitting": {"ok": self.splitting_ok, "block_residual": float(self.block_residual),
                          "center_min_eig": float(self.center_min_eig)},
            "ok": self.ok,
        }


_BEYOND_RANGE = "the Lie-algebra form is beyond the floating-point range"


def verify_compatibility(cd: CartanData, H: np.ndarray, tol: float = TOL) -> CompatibilityReport:
    """Clause-by-clause compatibility check of an SPD form on the Lie algebra."""
    H = np.asarray(H, dtype=float)
    if H.shape != (cd.dim, cd.dim):
        raise DimensionMismatch(f"form must be {cd.dim} x {cd.dim}")
    if not np.isfinite(H).all():
        raise ArithCurvesError(_BEYOND_RANGE)
    try:
        with np.errstate(over="raise"):
            return _clauses(cd, H, tol)
    except FloatingPointError:              # a product of the form's blocks overflows
        raise ArithCurvesError(_BEYOND_RANGE) from None


def _clauses(cd: CartanData, H: np.ndarray, tol: float) -> CompatibilityReport:
    u = center_basis(cd)
    vs = semisimple_basis(cd)
    hz = u.T @ H @ u
    center_min = float(np.linalg.eigvalsh((hz + hz.T) / 2).min())
    if vs.shape[1] == 0:
        return CompatibilityReport(0.0, 0.0, -math.inf, math.inf, 0.0, 0.0,
                                   0.0, center_min, tol)
    block = _rel(vs.T @ H @ u, H)

    hss = vs.T @ H @ vs
    hkss = vs.T @ cd.H_K @ vs
    theta = -np.linalg.solve(hkss, hss)
    try:
        hinv_hk = np.linalg.solve(hss, hkss)
    except np.linalg.LinAlgError:
        raise ArithCurvesError("the Lie-algebra form is singular in floating point") from None
    eye = np.eye(hss.shape[0])
    r_inv = _rel(theta @ theta - eye, eye)
    r_refl = _rel(hkss @ hinv_hk - hss, hss)
    r_iso = _rel(hkss.T @ hinv_hk - hss, hss)

    vp = _range_basis((eye + theta) / 2.0)
    vm = _range_basis((eye - theta) / 2.0)
    bp = vp.T @ hkss @ vp
    bm = vm.T @ hkss @ vm
    plus_max = float(np.linalg.eigvalsh((bp + bp.T) / 2).max()) if vp.size else -math.inf
    minus_min = float(np.linalg.eigvalsh((bm + bm.T) / 2).min()) if vm.size else math.inf
    cross = float(np.abs(vp.T @ hkss @ vm).max()) if vp.size and vm.size else 0.0

    return CompatibilityReport(involution_residual=r_inv, reflection_residual=r_refl,
                               plus_max_eig=plus_max, minus_min_eig=minus_min,
                               cross_residual=cross / (1.0 + np.abs(hkss).max()),
                               isometry_residual=r_iso, block_residual=block,
                               center_min_eig=center_min, tol=tol)


class CompatibleMetric(NamedTuple):
    """The pullback of the canonical metric along an invertible witness g."""

    cd: CartanData
    witness: np.ndarray

    @property
    def std(self) -> np.ndarray:             # the Gram matrix g^H g on the standard rep
        return self.witness.conj().T @ self.witness

    @property
    def H(self) -> np.ndarray:               # Ad(g)^T H_can Ad(g) on the Lie algebra
        with np.errstate(all="ignore"):      # verify_compatibility refuses a non-finite form
            ad = ad_matrix(self.cd, self.witness)
            return ad.T @ self.cd.H_can @ ad

    def verify(self, tol: float = TOL) -> CompatibilityReport:
        return verify_compatibility(self.cd, self.H, tol)


def witnessed_metric(cd: CartanData, g: np.ndarray) -> CompatibleMetric:
    """Pullback of the canonical metric along g (orbit of Prop-8 type actions)."""
    return CompatibleMetric(cd=cd, witness=_group_element(cd, g)[0])


def act(cd: CartanData, g: np.ndarray, metric):
    """Right action (H, g) -> Ad(g)^T H Ad(g); a metric's witness W moves to W g."""
    if isinstance(metric, CompatibleMetric):
        return witnessed_metric(cd, metric.witness @ _group_element(cd, g)[0])
    ad = ad_matrix(cd, g)
    return ad.T @ np.asarray(metric, dtype=float) @ ad


# ---------------------------------------------------------------------------
# Arithmetic torsors and slopes

class _ArithmeticTorsor(NamedTuple):
    field: NumberField
    rank: int
    ideals: tuple[FractionalIdeal, ...]
    metrics: tuple[CompatibleMetric, ...]    # real places first, then complex


class ArithmeticTorsor(_ArithmeticTorsor):
    """Rank-n pseudo-lattice (one ideal per basis vector) with place metrics."""

    __slots__ = ()

    def __new__(cls, field: NumberField, rank: int, ideals: tuple, metrics: tuple):
        r1, r2 = field.signature
        if len(ideals) != rank:
            raise ArithCurvesError("need one ideal per basis vector")
        if len(metrics) != r1 + r2:
            raise ArithCurvesError(f"need {r1 + r2} place metrics")
        kinds = ["real"] * r1 + ["complex"] * r2
        for kind, m in zip(kinds, metrics):
            if m.cd.place != kind or m.cd.n != rank:
                raise ArithCurvesError("metric place data does not match the field")
        return super().__new__(cls, field, rank, ideals, metrics)


def determinant_bundle(T: ArithmeticTorsor) -> MetrizedLineBundle:
    """Ideal product with the Gram-determinant metric per place."""
    ideal = T.ideals[0]
    for i in T.ideals[1:]:
        ideal = ideal * i
    rhos = []
    for m in T.metrics:
        with np.errstate(all="ignore"):     # an overflow or a NaN is refused below
            d = float(np.linalg.det(m.std).real)
        if not 0 < d < math.inf:        # det(g^H g) overflows, or rounds to <= 0 near singular g
            raise ArithCurvesError("a metric's Gram determinant is not a positive finite float")
        rhos.append(math.sqrt(d))
    return MetrizedLineBundle(ideal, tuple(rhos))


def slope(T: ArithmeticTorsor, k: int = 1) -> float:
    """<det^k, mu> = k * deg_ar of the determinant line bundle."""
    deg = arithmetic_degree(T.field, determinant_bundle(T))
    try:
        value = k * deg
    except OverflowError:               # k itself is beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ArithCurvesError("the character power is beyond the floating-point range of "
                               "the archimedean metrics")
    return value

